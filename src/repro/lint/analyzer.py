"""The wafelint analysis pass: recursive descent over parsed scripts.

The analyzer walks a script the way the interpreter would -- commands,
nested braced/quoted script arguments, callback strings, translation
tables -- but never evaluates anything: loops are visited once,
``exec``/``exit``/``quit`` are just names, and command/variable
substitutions are left symbolic.  Two passes run over the same tree:

* ``collect`` gathers facts usable before their definition point --
  ``proc`` names/arities and widget creations (name -> class) -- so a
  callback attached early may call a proc defined later.
* ``analyze`` applies the rules (W001..W010, see
  :mod:`repro.lint.diagnostics`) and records diagnostics with absolute
  file positions.

Positions: every region of nested script is analyzed as a slice of the
original source anchored at a (line, col) base; positions inside the
region compose with the base, so a bad percent code four callbacks deep
still points at the right character of the file.
"""

from repro.lint.diagnostics import Diagnostic, ERROR, WARNING
from repro.lint.knowledge import ALL_CALLBACK_CODES
from repro.lint.regions import (
    Region, compose, literal, offset_of, word_end, word_region, word_regions)
from repro.tcl import parser as _parser
from repro.tcl.errors import TclError
from repro.tcl.lists import string_to_list
from repro.xlib import xtypes
from repro.xt.translations import TranslationError, parse_translation_table

#: Commands that unconditionally end a block (for W010).
_TERMINATORS = frozenset(("return", "break", "continue", "error"))

#: Commands taking nested script arguments (guards the region math,
#: which costs a line count per word, off the common path).
_SCRIPT_ARG_COMMANDS = frozenset((
    "if", "while", "for", "foreach", "catch", "time", "switch",
    "addWorkProc", "addTimeOut", "ownSelection",
    "setCommunicationVariable"))

#: Nesting bound: analysis of adversarial input must terminate.
_MAX_DEPTH = 50


class _ProcInfo:
    __slots__ = ("name", "min_args", "max_args")

    def __init__(self, name, min_args, max_args):
        self.name = name
        self.min_args = min_args
        self.max_args = max_args  # None: trailing ``args`` formal


class Analyzer:
    """One lint run: shared proc/widget tables, accumulated diagnostics.

    ``collect`` and ``analyze`` may each be called several times (e.g.
    for every script chunk extracted from one Python example file); all
    chunks then share procs, widget classes, and extra commands.
    """

    def __init__(self, knowledge, filename="<script>", extra_commands=(),
                 safe_profile=False):
        self.kb = knowledge
        self.filename = filename
        self.extra_commands = set(extra_commands)
        #: W011: flag commands the runtime hides under --safe.
        self.safe_profile = safe_profile
        self.procs = {}
        #: widget name -> class name, seeded with the automatic shell.
        self.widgets = {"topLevel": "ApplicationShell"}
        self._diags = []
        #: Top-level chunks seen by collect(), in source order, and the
        #: callback scripts found during analysis -- the flow-sensitive
        #: pass (W012..W017) runs over both.
        self._chunks = []
        self._callback_scripts = []
        self._flow_done = False

    def diagnostics(self):
        """All findings, deduplicated, sorted by (file, line, col,
        rule) so output is diffable across runs.  Runs the
        flow-sensitive pass first if it has not run yet."""
        self.flow()
        seen = set()
        unique = []
        for diag in sorted(self._diags,
                           key=lambda d: (d.file, d.line, d.col, d.code,
                                          d.severity, d.message)):
            key = (diag.file, diag.line, diag.col, diag.code,
                   diag.severity, diag.message)
            if key not in seen:
                seen.add(key)
                unique.append(diag)
        return unique

    # ------------------------------------------------------------------
    # Entry points

    def collect(self, source, line=1, col=1, embedded=False):
        """``embedded`` marks a chunk harvested out of a host program
        (a Python string literal): the host runs it interleaved with
        arbitrary interpreter mutations, so the flow pass must assume
        any variable may already be defined at its entry."""
        self._chunks.append((source, line, col, embedded))
        self._collect_region(Region(source, line, col), 0)

    def analyze(self, source, line=1, col=1):
        self._analyze_region(Region(source, line, col), 0)

    def flow(self):
        """The flow-sensitive pass (W012..W017), once per analyzer.

        Imported lazily: the CFG/dataflow machinery is only paid for
        when diagnostics are actually requested."""
        if self._flow_done:
            return
        self._flow_done = True
        from repro.lint.flowrules import analyze_flow

        self._diags.extend(analyze_flow(
            self._chunks, self._callback_scripts, self.kb,
            self.filename, extra_commands=self.extra_commands))

    # ------------------------------------------------------------------
    # Shared plumbing

    def _report(self, code, message, region, offset, severity=ERROR):
        line, col = region.position(offset)
        self._diags.append(Diagnostic(code, message, file=self.filename,
                                      line=line, col=col,
                                      severity=severity))

    def _iter_commands(self, region, report):
        """Parse a region one command at a time, recovering at the line
        after a parse error so one bad command does not hide the rest
        of the script.  Parse errors carry positions relative to the
        region's text, which compose with the region base (W006)."""
        text = region.text
        pos = 0
        n = len(text)
        while pos < n:
            try:
                command, pos = _parser._parse_command(text, pos)
            except TclError as err:
                if report:
                    self._report_parse_error(region, err)
                resume = pos
                if err.line is not None:
                    resume = max(resume,
                                 offset_of(text, err.line, err.col))
                newline = text.find("\n", resume)
                if newline < 0:
                    return
                pos = newline + 1
                continue
            if command is not None and command.words:
                yield command

    def _report_parse_error(self, region, err):
        message = err.result
        if err.line is not None:
            # Re-anchor the parser's relative position.
            suffix = " (line %d column %d)" % (err.line, err.col)
            if message.endswith(suffix):
                message = message[: -len(suffix)]
            line, col = compose(region.line, region.col,
                                err.line, err.col)
        else:
            line, col = region.line, region.col
        self._diags.append(Diagnostic(
            "W006", message, file=self.filename,
            line=line, col=col, severity=ERROR))

    # ------------------------------------------------------------------
    # Pass 1: fact collection (procs, widget creations)

    def _collect_region(self, region, depth):
        if depth > _MAX_DEPTH:
            return
        for command in self._iter_commands(region, report=False):
            words = command.words
            name = literal(words[0]) if words else None
            if name is None:
                continue
            if name == "proc" and len(words) == 4:
                self._collect_proc(region, words, depth)
            elif name in ("applicationShell",) and len(words) >= 3:
                widget = literal(words[1])
                if widget is not None:
                    self.widgets.setdefault(widget, "ApplicationShell")
            else:
                class_name = self.kb.creation_class(name)
                if class_name is not None and len(words) >= 3:
                    widget = literal(words[1])
                    if widget is not None:
                        self.widgets.setdefault(widget, class_name)
            for sub in self._script_argument_regions(region, command):
                self._collect_region(sub, depth + 1)

    def _collect_proc(self, region, words, depth):
        name = literal(words[1])
        formals_text = literal(words[2])
        if name is None or formals_text is None:
            return
        try:
            formals = string_to_list(formals_text)
        except TclError:
            return
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
        self.procs[name] = _ProcInfo(name, min_args, max_args)
        body = word_region(region, words[3],
                           word_end(region.text, words[3]))
        if body is not None:
            self._collect_region(body, depth + 1)

    def _script_argument_regions(self, region, command):
        """Regions of nested script arguments reachable without
        evaluating anything (control-flow bodies, timer/workproc
        scripts).  Callback strings are handled separately during
        analysis because they need class/resource context."""
        words = command.words
        name = literal(words[0]) if words else None
        if name is None or name not in _SCRIPT_ARG_COMMANDS:
            return
        regions = word_regions(region, command)

        def script_at(index):
            if index < len(words) and regions[index] is not None:
                return regions[index]
            return None

        if name == "if":
            # if cond body ?elseif cond body ...? ?else body?
            i = 2
            while i < len(words):
                keyword = literal(words[i])
                if keyword == "elseif":
                    i += 2  # skip to the body after the condition
                elif keyword == "else":
                    i += 1
                sub = script_at(i)
                if sub is not None:
                    yield sub
                i += 1
        elif name == "while":
            sub = script_at(2)
            if sub is not None:
                yield sub
        elif name == "for":
            for index in (1, 3, 4):
                sub = script_at(index)
                if sub is not None:
                    yield sub
        elif name == "foreach":
            sub = script_at(3)
            if sub is not None:
                yield sub
        elif name in ("catch", "time"):
            sub = script_at(1)
            if sub is not None:
                yield sub
        elif name == "addWorkProc":
            sub = script_at(1)
            if sub is not None:
                yield sub
        elif name == "addTimeOut":
            sub = script_at(2)
            if sub is not None:
                yield sub
        elif name == "ownSelection":
            sub = script_at(3)
            if sub is not None:
                yield sub
        elif name == "setCommunicationVariable":
            sub = script_at(3)
            if sub is not None:
                yield sub
        elif name == "switch":
            yield from self._switch_bodies(region, command, regions)

    def _switch_bodies(self, region, command, regions):
        """Bodies of ``switch ?opts? string {pat body ...}`` (braced
        list form) or inline ``switch string pat body pat body ...``."""
        words = command.words
        i = 1
        while i < len(words):
            option = literal(words[i])
            if option is None or not option.startswith("-"):
                break
            i += 1
        i += 1  # the string being matched
        rest = words[i:]
        if len(rest) == 1 and rest[0].braced:
            # Braced pattern/body list: no per-body positions; anchor
            # everything at the list's opening brace.
            sub = regions[i]
            if sub is None:
                return
            try:
                items = string_to_list(sub.text)
            except TclError:
                return
            for j in range(1, len(items), 2):
                if items[j] != "-":
                    yield Region(items[j], sub.line, sub.col)
            return
        for j in range(i + 1, len(words), 2):
            if j < len(regions) and regions[j] is not None:
                if literal(words[j]) != "-":
                    yield regions[j]

    # ------------------------------------------------------------------
    # Pass 2: rules

    def _analyze_region(self, region, depth):
        if depth > _MAX_DEPTH:
            return
        terminated_at = None
        for command in self._iter_commands(region, report=True):
            words = command.words
            if not words:
                continue
            if terminated_at is not None:
                self._report(
                    "W010",
                    'unreachable: follows "%s" in the same block'
                    % terminated_at, region, command.pos,
                    severity=WARNING)
                terminated_at = None  # one report per block is enough
            name = literal(words[0])
            self._analyze_command(region, command, name, depth)
            if name in _TERMINATORS:
                terminated_at = name

    def _analyze_command(self, region, command, name, depth):
        words = command.words
        if name is not None and "%" not in name:
            self._check_command_name(region, command, name)
        # Recurse into plain nested script arguments.
        for sub in self._script_argument_regions(region, command):
            self._analyze_region(sub, depth + 1)
        if name is None:
            return
        handler = _HANDLERS.get(name)
        if handler is not None:
            handler(self, region, command, depth)
            return
        class_name = self.kb.creation_class(name)
        if class_name is not None:
            self._analyze_creation(region, command, class_name, depth)

    # -- W001 / W002 ----------------------------------------------------

    def _check_command_name(self, region, command, name):
        words = command.words
        if name in self.procs:
            # Arity of user-proc calls is W017's job (the flow pass
            # tracks every definition, not just the last one).
            return
        if name in self.extra_commands:
            return
        if self.safe_profile and name in self.kb.safe_hidden:
            self._report(
                "W011",
                'command "%s" is hidden in safe mode (%s)'
                % (name, self.kb.safe_hidden[name]),
                region, command.pos)
            return
        if not self.kb.command_known(name):
            self._report("W001", 'unknown command "%s"' % name,
                         region, command.pos)
            return
        arity, usage = self.kb.spec_arity(name)
        if arity is not None and len(words) != arity:
            self._report(
                "W002",
                'wrong # args for "%s": got %d, should be "%s"'
                % (name, len(words) - 1, usage), region, command.pos)

    # -- W003 and callback recursion ------------------------------------

    def _analyze_creation(self, region, command, class_name, depth):
        words = command.words
        if len(words) < 3:
            self._report(
                "W002",
                'wrong # args: should be "%s name parent '
                '?attr value ...?"' % literal(words[0]),
                region, command.pos)
            return
        rest_index = 3
        rest = words[3:]
        if rest and literal(rest[0]) in ("-unmanaged", "unmanaged"):
            rest_index += 1
            rest = rest[1:]
        if len(rest) % 2 != 0:
            self._report(
                "W002",
                "attribute list must have an even number of elements",
                region, command.pos)
            rest = rest[:-1]
        parent_name = literal(words[2])
        parent_class = self.widgets.get(parent_name or "")
        self._check_attr_pairs(region, command, class_name, parent_class,
                               rest_index, depth)

    def _check_attr_pairs(self, region, command, class_name, parent_class,
                          first_attr, depth):
        """Attr/value pairs of a creation command or setValues: W003 on
        unknown resources, recursion into callback scripts."""
        words = command.words
        regions = word_regions(region, command)
        resources = self.kb.resource_map(class_name)
        constraints = self.kb.constraint_names(parent_class)
        for i in range(first_attr, len(words) - 1, 2):
            attr = literal(words[i])
            if attr is None:
                continue
            if resources is not None and attr not in resources \
                    and attr not in constraints:
                self._report(
                    "W003",
                    'unknown resource "%s" for widget class %s'
                    % (attr, class_name), region, words[i].pos)
                continue
            if self.kb.is_callback_resource(class_name, attr):
                value_region = regions[i + 1]
                if value_region is not None:
                    self._analyze_callback(value_region, class_name, attr,
                                           depth)

    def _widget_class_of(self, words, index):
        name = literal(words[index]) if index < len(words) else None
        return self.widgets.get(name or "")

    # -- Percent codes (W004 / W005) ------------------------------------

    def _scan_percent_codes(self, text):
        """Yield (code, offset) for every ``%x`` in ``text``; ``%%``
        yields the code ``%`` (always valid) and is not re-scanned."""
        i = 0
        n = len(text)
        while i + 1 < n:
            if text[i] == "%":
                yield text[i + 1], i
                i += 2
            else:
                i += 1

    def _analyze_callback(self, region, class_name, resource_name, depth):
        """A callback script: percent codes first, then the script
        rules apply to the expanded command."""
        class_codes = self.kb.callback_codes_for(class_name, resource_name)
        for code, offset in self._scan_percent_codes(region.text):
            if code == "%" or code == "w":
                continue
            if class_codes is not None and code in class_codes:
                continue
            if class_codes is None and code in ALL_CALLBACK_CODES:
                continue  # class unknown: give known codes the benefit
            if code in self.kb.action_code_events:
                self._report(
                    "W005",
                    '"%%%s" is an action percent code; callbacks on %s '
                    "accept %s" % (code, class_name or "this widget",
                                   _callback_code_list(class_codes)),
                    region, offset)
            elif code.isalnum():
                self._report(
                    "W004",
                    'unknown percent code "%%%s" in callback '
                    "(substitutes literally at runtime)" % code,
                    region, offset, severity=WARNING)
        self._callback_scripts.append((region.text, region.line,
                                       region.col))
        self._analyze_region(region, depth + 1)

    def _analyze_action_script(self, region, offset, script, event_types):
        """The argument of an ``exec(...)`` action in a translation:
        percent codes checked against the paper's code/event matrix."""
        for code, rel in self._scan_percent_codes(script):
            if code == "%":
                continue
            valid_for = self.kb.action_code_events.get(code)
            if valid_for is None:
                if code in ALL_CALLBACK_CODES:
                    self._report(
                        "W005",
                        '"%%%s" is a callback percent code and is not '
                        "substituted in action position" % code,
                        region, offset)
                elif code.isalnum():
                    self._report(
                        "W004",
                        'unknown percent code "%%%s" in action '
                        "(substitutes literally at runtime)" % code,
                        region, offset, severity=WARNING)
                continue
            invalid = [t for t in event_types if t not in valid_for]
            if invalid and code != "t":
                names = ", ".join(sorted(
                    xtypes.EVENT_NAMES.get(t, str(t)) for t in invalid))
                self._report(
                    "W004",
                    '"%%%s" is not valid for event type %s (substitutes '
                    "the empty string)" % (code, names), region, offset)

    # -- Translations (W007) --------------------------------------------

    def _analyze_translations(self, region, command, table_words,
                              widget_class, depth):
        words = command.words
        regions = word_regions(region, command)
        known_actions = self.kb.action_names(widget_class)
        for index in table_words:
            table_region = regions[index]
            text = literal(words[index])
            if table_region is None or text is None:
                continue
            try:
                table = parse_translation_table(text)
            except TranslationError as err:
                self._report("W007", str(err), region, words[index].pos)
                continue
            for production in table.productions:
                event_types = {spec.event_type for spec in production.specs}
                for action_name, args in production.actions:
                    if action_name == "exec":
                        for arg in args:
                            self._analyze_action_script(
                                table_region, 0, arg, event_types)
                            sub = Region(arg, table_region.line,
                                         table_region.col)
                            self._analyze_region(sub, depth + 1)
                    elif known_actions is not None \
                            and action_name not in known_actions:
                        self._report(
                            "W007",
                            'unknown action "%s" for widget class %s'
                            % (action_name, widget_class), region,
                            words[index].pos, severity=WARNING)

    # -- Exprs (W009) ---------------------------------------------------

    def _check_expr_word(self, region, word):
        if word.braced:
            return
        has_varsub = any(kind == _parser.VARSUB for kind, __ in word.parts)
        if has_varsub:
            self._report(
                "W009",
                "unbraced expression with $-substitution (substituted "
                "before parsing; brace it)", region, word.pos,
                severity=WARNING)

    # ------------------------------------------------------------------
    # Per-command handlers

    def _handle_proc(self, region, command, depth):
        words = command.words
        if len(words) != 4:
            self._report(
                "W002",
                'wrong # args: should be "proc name args body"',
                region, command.pos)
            return
        body = word_region(region, words[3],
                           word_end(region.text, words[3]))
        if body is not None:
            self._analyze_region(body, depth + 1)

    def _handle_set(self, region, command, depth):
        words = command.words
        if len(words) > 3:
            self._report(
                "W008",
                '"set" with %d arguments (takes one or two; missing '
                "quoting?)" % (len(words) - 1), region, command.pos,
                severity=WARNING)

    def _handle_expr(self, region, command, depth):
        for word in command.words[1:]:
            self._check_expr_word(region, word)

    def _handle_if(self, region, command, depth):
        words = command.words
        if len(words) > 1:
            self._check_expr_word(region, words[1])
        i = 2
        while i < len(words):
            keyword = literal(words[i])
            if keyword == "elseif" and i + 1 < len(words):
                self._check_expr_word(region, words[i + 1])
                i += 2
            else:
                i += 1

    def _handle_while(self, region, command, depth):
        if len(command.words) > 1:
            self._check_expr_word(region, command.words[1])

    def _handle_for(self, region, command, depth):
        if len(command.words) > 2:
            self._check_expr_word(region, command.words[2])

    def _handle_set_values(self, region, command, depth):
        words = command.words
        if len(words) < 2 or len(words) % 2 != 0:
            self._report(
                "W002",
                'wrong # args: should be "setValues widget '
                '?attr value ...?"', region, command.pos)
            return
        class_name = self._widget_class_of(words, 1)
        if class_name is None:
            return
        self._check_attr_pairs(region, command, class_name, None, 2, depth)

    def _handle_get_value(self, region, command, depth):
        words = command.words
        if len(words) != 3:
            self._report(
                "W002",
                'wrong # args: should be "getValue widget resource"',
                region, command.pos)
            return
        self._check_resource_name(region, command, words[2])

    def _handle_get_values(self, region, command, depth):
        words = command.words
        if len(words) < 4 or len(words) % 2 != 0:
            self._report(
                "W002",
                'wrong # args: should be "getValues widget resource '
                'varName ?resource varName ...?"', region, command.pos)
            return
        for i in range(2, len(words), 2):
            self._check_resource_name(region, command, words[i])

    def _check_resource_name(self, region, command, resource_word):
        words = command.words
        class_name = self._widget_class_of(words, 1)
        resource = literal(resource_word)
        if class_name is None or resource is None:
            return
        resources = self.kb.resource_map(class_name)
        if resources is None:
            return
        if resource not in resources \
                and resource not in self.kb.all_constraint_names:
            self._report(
                "W003",
                'unknown resource "%s" for widget class %s'
                % (resource, class_name), region, resource_word.pos)

    def _handle_add_callback(self, region, command, depth):
        words = command.words
        if len(words) != 4:
            self._report(
                "W002",
                'wrong # args: should be "addCallback widget resource '
                'script"', region, command.pos)
            return
        class_name = self._widget_class_of(words, 1)
        resource = literal(words[2])
        if class_name is not None and resource is not None:
            resources = self.kb.resource_map(class_name)
            if resources is not None and resource not in resources:
                self._report(
                    "W003",
                    'unknown resource "%s" for widget class %s'
                    % (resource, class_name), region, words[2].pos)
                return
        regions = word_regions(region, command)
        if regions[3] is not None:
            self._analyze_callback(regions[3], class_name, resource or
                                   "callback", depth)

    def _handle_predefined_callback(self, region, command, depth):
        words = command.words
        if len(words) < 4:
            self._report(
                "W002",
                'wrong # args: should be "callback widget resource '
                'function ?arg ...?"', region, command.pos)
            return
        func = literal(words[3])
        if func is not None and func not in self.kb.predefined_callbacks:
            self._report(
                "W001",
                'unknown predefined callback "%s": must be one of %s'
                % (func, ", ".join(sorted(self.kb.predefined_callbacks))),
                region, words[3].pos)

    def _handle_action(self, region, command, depth):
        words = command.words
        if len(words) < 4:
            self._report(
                "W002",
                'wrong # args: should be "action widget mode translation '
                '?translation ...?"', region, command.pos)
            return
        mode = literal(words[2])
        if mode is not None and mode not in ("override", "augment",
                                             "replace"):
            self._report(
                "W007",
                'bad mode "%s": must be override, augment, or replace'
                % mode, region, words[2].pos)
        widget_class = self._widget_class_of(words, 1)
        self._analyze_translations(region, command, range(3, len(words)),
                                   widget_class, depth)

    def _handle_override_translations(self, region, command, depth):
        words = command.words
        if len(words) != 3:
            return  # arity reported via the spec table
        widget_class = self._widget_class_of(words, 1)
        self._analyze_translations(region, command, (2,), widget_class,
                                   depth)


def _callback_code_list(class_codes):
    codes = ["%w", "%%"]
    codes.extend(sorted("%" + c for c in (class_codes or ())))
    return ", ".join(codes)


_HANDLERS = {
    "proc": Analyzer._handle_proc,
    "set": Analyzer._handle_set,
    "expr": Analyzer._handle_expr,
    "if": Analyzer._handle_if,
    "while": Analyzer._handle_while,
    "for": Analyzer._handle_for,
    "setValues": Analyzer._handle_set_values,
    "sV": Analyzer._handle_set_values,
    "getValue": Analyzer._handle_get_value,
    "gV": Analyzer._handle_get_value,
    "getValues": Analyzer._handle_get_values,
    "addCallback": Analyzer._handle_add_callback,
    "callback": Analyzer._handle_predefined_callback,
    "action": Analyzer._handle_action,
    "overrideTranslations": Analyzer._handle_override_translations,
    "augmentTranslations": Analyzer._handle_override_translations,
}
