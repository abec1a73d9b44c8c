"""Translation tables: the Xt event-to-action binding language.

Parses the subset of the translation grammar the paper and the Athena
widgets use::

    #override
    <EnterWindow>: PopupMenu()
    <Key>Return: exec(echo [gV input string])
    Shift<KeyPress>: exec(echo %k)
    <Btn1Down>: set() notify()

Each production is ``[modifiers]<event>[detail]: action(args) ...``.
Tables carry an optional ``#replace``/``#override``/``#augment``
directive; :func:`merge_tables` implements the corresponding Xt merge
semantics (also used by Wafe's ``action widget override ...`` command).

Multi-event sequences (``<Btn1Down>,<Btn1Up>``) are supported through
the stateful matcher (:meth:`TranslationTable.lookup_stateful`); the
dispatcher tracks per-widget sequence progress.  Limitation
(documented): the ``:`` / ``#`` modifier prefixes of the full grammar
are not supported.
"""

from repro.tcl.errors import TclError
from repro.xlib import keysym as _keysym
from repro.xlib import xtypes


class TranslationError(TclError):
    """A translation table failed to parse."""


_MODIFIER_BITS = {
    "shift": xtypes.ShiftMask,
    "lock": xtypes.LockMask,
    "ctrl": xtypes.ControlMask,
    "meta": xtypes.Mod1Mask,
    "mod1": xtypes.Mod1Mask,
    "button1": xtypes.Button1Mask,
    "button2": xtypes.Button2Mask,
    "button3": xtypes.Button3Mask,
}

# Event-spec name -> (event type, button detail or None)
_EVENT_TYPES = {
    "keypress": (xtypes.KeyPress, None),
    "key": (xtypes.KeyPress, None),
    "keydown": (xtypes.KeyPress, None),
    "keyrelease": (xtypes.KeyRelease, None),
    "keyup": (xtypes.KeyRelease, None),
    "buttonpress": (xtypes.ButtonPress, None),
    "btndown": (xtypes.ButtonPress, None),
    "btn1down": (xtypes.ButtonPress, 1),
    "btn2down": (xtypes.ButtonPress, 2),
    "btn3down": (xtypes.ButtonPress, 3),
    "buttonrelease": (xtypes.ButtonRelease, None),
    "btnup": (xtypes.ButtonRelease, None),
    "btn1up": (xtypes.ButtonRelease, 1),
    "btn2up": (xtypes.ButtonRelease, 2),
    "btn3up": (xtypes.ButtonRelease, 3),
    "enterwindow": (xtypes.EnterNotify, None),
    "enter": (xtypes.EnterNotify, None),
    "enternotify": (xtypes.EnterNotify, None),
    "leavewindow": (xtypes.LeaveNotify, None),
    "leave": (xtypes.LeaveNotify, None),
    "leavenotify": (xtypes.LeaveNotify, None),
    "motionnotify": (xtypes.MotionNotify, None),
    "motion": (xtypes.MotionNotify, None),
    "ptrmoved": (xtypes.MotionNotify, None),
    "mousemoved": (xtypes.MotionNotify, None),
    "btnmotion": (xtypes.MotionNotify, None),
    "focusin": (xtypes.FocusIn, None),
    "focusout": (xtypes.FocusOut, None),
    "expose": (xtypes.Expose, None),
}


class EventSpec:
    """One ``[modifiers]<event>[detail]`` element of a production."""

    __slots__ = ("event_type", "button", "keysym", "modifiers",
                 "modifier_mask", "exact")

    def __init__(self, event_type, button, keysym, modifiers, modifier_mask,
                 exact):
        self.event_type = event_type
        self.button = button
        self.keysym = keysym
        self.modifiers = modifiers          # required bits set
        self.modifier_mask = modifier_mask  # bits we care about
        self.exact = exact                  # None/'!' exactness

    def matches(self, event):
        if event.type != self.event_type:
            return False
        if self.button is not None and event.button != self.button:
            return False
        if self.keysym is not None:
            shifted = bool(event.state & xtypes.ShiftMask)
            value = _keysym.keycode_to_keysym(event.keycode, shifted)
            if value != self.keysym:
                return False
        state = event.state
        if self.exact:
            relevant = (xtypes.ShiftMask | xtypes.ControlMask |
                        xtypes.Mod1Mask)
            return (state & relevant) == self.modifiers
        if (state & self.modifier_mask) != self.modifiers:
            return False
        return True


class Production:
    """One line: event sequence -> list of (action, args).

    Most productions are single-event; sequences like
    ``<Btn1Down>,<Btn1Up>`` carry several specs and only fire when the
    whole sequence arrives in order (tracked per widget by the
    dispatcher through :meth:`TranslationTable.lookup_stateful`).
    """

    __slots__ = ("specs", "actions", "source")

    def __init__(self, specs, actions, source):
        self.specs = specs
        self.actions = actions
        self.source = source

    def matches(self, event):
        """Stateless match: single-event productions only."""
        return len(self.specs) == 1 and self.specs[0].matches(event)


_NO_PRODUCTIONS = ()


class TranslationTable:
    """An ordered tuple of productions plus the merge directive.

    Dispatch is indexed: productions are bucketed by the event type of
    their *first* spec (built lazily, since merge_tables constructs
    fresh tables constantly), so per-event lookup touches only the
    productions that could possibly start on this event instead of
    linearly scanning every binding in the table.

    A table is never changed once built (merging makes a new one), and
    per-widget sequence state lives in the caller's ``progress`` dict,
    so one table may be shared by any number of widgets: every widget
    of a class shares the parsed class defaults, and widgets created on
    one resource path share a database-given table.
    """

    __slots__ = ("productions", "directive", "source", "_by_type")

    def __init__(self, productions, directive="replace", source=""):
        self.productions = productions
        self.directive = directive
        self.source = source
        self._by_type = None

    def _index(self):
        by_type = self._by_type
        if by_type is None:
            by_type = {}
            for production in self.productions:
                by_type.setdefault(production.specs[0].event_type,
                                   []).append(production)
            self._by_type = by_type
        return by_type

    def lookup(self, event):
        """First matching single-event production's actions, or None."""
        for production in self._index().get(event.type, _NO_PRODUCTIONS):
            if production.matches(event):
                return production.actions
        return None

    def lookup_stateful(self, event, progress):
        """Sequence-aware lookup.

        ``progress`` maps ``id(production)`` to the index of the next
        spec expected; the caller keeps one dict per widget, and only
        nonzero positions are stored.  Returns the actions of the first
        production completed by this event.  Productions whose
        in-flight sequence is broken by the event reset, as Xt's
        matcher does.

        With no sequence in flight (the common case -- ``progress``
        empty) only the productions indexed under this event type are
        consulted; a production of another start type can neither fire
        nor change state.  Once sequences are mid-flight every
        production is scanned, because an unrelated event must reset
        them.
        """
        if progress:
            candidates = self.productions
        else:
            candidates = self._index().get(event.type, _NO_PRODUCTIONS)
        fired = None
        for production in candidates:
            key = id(production)
            index = progress.get(key, 0)
            if index < len(production.specs) and \
                    production.specs[index].matches(event):
                index += 1
            elif production.specs[0].matches(event):
                index = 1  # restart the sequence at this event
            else:
                index = 0
            if index >= len(production.specs):
                if fired is None:
                    fired = production.actions
                index = 0
            if index:
                progress[key] = index
            else:
                progress.pop(key, None)
        return fired

    def __len__(self):
        return len(self.productions)


def parse_translation_table(text):
    """Parse translation-table text into a :class:`TranslationTable`."""
    productions = []
    directive = "replace"
    for raw_line in text.replace("\\n", "\n").split("\n"):
        line = raw_line.strip()
        if not line or line.startswith("!"):
            continue
        if line.startswith("#"):
            word = line[1:].strip().lower()
            if word in ("replace", "override", "augment"):
                directive = word
                continue
            raise TranslationError('unknown directive "%s"' % line)
        productions.append(_parse_production(line))
    return TranslationTable(tuple(productions), directive, text)


def _parse_production(line):
    colon = _find_colon(line)
    if colon < 0:
        raise TranslationError('missing ":" in translation "%s"' % line)
    lhs = line[:colon].strip()
    rhs = line[colon + 1 :].strip()
    specs = [_parse_event_spec(part.strip())
             for part in lhs.split(",") if part.strip()]
    if not specs:
        raise TranslationError('empty event sequence in "%s"' % line)
    actions = _parse_actions(rhs)
    return Production(specs, actions, line)


def _find_colon(line):
    """The ':' separating spec from actions (not one inside <>)."""
    depth = 0
    for i, ch in enumerate(line):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == ":" and depth == 0:
            return i
    return -1


def _parse_event_spec(spec):
    exact = False
    modifiers = 0
    mask = 0
    rest = spec
    if rest.startswith("!"):
        exact = True
        rest = rest[1:].strip()
    angle = rest.find("<")
    if angle < 0:
        raise TranslationError('missing "<" in event spec "%s"' % spec)
    for token in rest[:angle].replace("~", " ~").split():
        negate = token.startswith("~")
        name = token[1:] if negate else token
        lowered = name.lower()
        if lowered == "none":
            exact = True
            continue
        bit = _MODIFIER_BITS.get(lowered)
        if bit is None:
            raise TranslationError('unknown modifier "%s"' % name)
        mask |= bit
        if not negate:
            modifiers |= bit
    close = rest.find(">", angle)
    if close < 0:
        raise TranslationError('missing ">" in event spec "%s"' % spec)
    event_name = rest[angle + 1 : close].strip().lower()
    if event_name not in _EVENT_TYPES:
        raise TranslationError('unknown event type "<%s>"'
                               % rest[angle + 1 : close].strip())
    event_type, button = _EVENT_TYPES[event_name]
    detail = rest[close + 1 :].strip()
    keysym = None
    if detail:
        if event_type in (xtypes.KeyPress, xtypes.KeyRelease):
            keysym = _keysym.string_to_keysym(detail)
            if keysym == _keysym.NoSymbol:
                raise TranslationError('unknown keysym "%s"' % detail)
        elif event_type in (xtypes.ButtonPress, xtypes.ButtonRelease):
            try:
                button = int(detail)
            except ValueError:
                raise TranslationError('bad button detail "%s"' % detail)
    return EventSpec(event_type, button, keysym, modifiers, mask, exact)


def _parse_actions(text):
    """Parse ``name(arg, arg) name2()`` into [(name, [args]), ...]."""
    actions = []
    i = 0
    n = len(text)
    while i < n:
        while i < n and text[i] in " \t":
            i += 1
        if i >= n:
            break
        start = i
        while i < n and (text[i].isalnum() or text[i] in "_-"):
            i += 1
        name = text[start:i]
        if not name:
            raise TranslationError('bad action list "%s"' % text)
        args = []
        if i < n and text[i] == "(":
            depth = 0
            j = i
            while j < n:
                if text[j] == "(":
                    depth += 1
                elif text[j] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j >= n:
                raise TranslationError('missing ")" in action "%s"' % text)
            body = text[i + 1 : j]
            args = _split_args(body)
            i = j + 1
        actions.append((name, args))
    return actions


def _split_args(body):
    """Comma-split at top level; quoted strings keep their commas."""
    if body.strip() == "":
        return []
    args = []
    current = []
    depth = 0
    in_quote = False
    for ch in body:
        if in_quote:
            if ch == '"':
                in_quote = False
            else:
                current.append(ch)
            continue
        if ch == '"':
            in_quote = True
        elif ch == "(":
            depth += 1
            current.append(ch)
        elif ch == ")":
            depth -= 1
            current.append(ch)
        elif ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    args.append("".join(current).strip())
    return args


def merge_tables(base, new):
    """Apply Xt merge semantics according to ``new.directive``.

    * replace: the new table wins entirely.
    * override: new productions are consulted before the old ones.
    * augment: new productions are consulted only where the old table
      has no binding (appended after).
    """
    if base is None or new.directive == "replace":
        return new
    if new.directive == "override":
        productions = new.productions + base.productions
    else:  # augment
        productions = base.productions + new.productions
    merged = TranslationTable(productions, "replace",
                              base.source + "\n" + new.source)
    return merged
